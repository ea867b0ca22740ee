"""Wall-clock attribution profiler: where does *wall* time (not sim time) go?

Every other layer in ``repro.obs`` observes the *simulated* timeline —
spans, flight-recorder series and critpath blame are all in sim seconds.
ROADMAP item 3's profile-first rule needs the other axis: which Python
code burns the host CPU while the DES retires events.  This module is
that tool, built entirely on stdlib :mod:`cProfile` so the hot paths are
**never instrumented**: a profiled run executes byte-for-byte the same
simulation code as an unprofiled one (cProfile only observes frame
entry/exit), which is what makes the two guarantees cheap to keep:

* profiling never changes simulated results (asserted in
  ``tests/test_obs_profile.py`` and CI's profile-smoke leg);
* profile-off runs are byte-identical to a tree without this module —
  there is no ``if profiling:`` branch anywhere in kernel/RPC/container
  code to get wrong.

Three views come out of one run:

* **per-subsystem wall shares** — every profiled function is classified
  by its file path into the architectural layers the paper's Table I
  talks about (``kernel``, ``fabric``, ``rpc``, ``marshal``,
  ``coalesce``, ``container``, ``observability``, ...), so "interpreter
  overhead in marshal" is a number, not a guess;
* **top-N functions** by self time (the classic profile table);
* **folded stacks** (``a;b;c <microseconds>`` lines) reconstructed from
  cProfile's caller graph, ready for any flame-graph renderer
  (e.g. ``flamegraph.pl`` or speedscope's folded importer).

:class:`WallScope` adds explicit named wall phases for harness-level
bracketing (setup vs run vs report); scopes are coarse by design and
never sit on per-event paths.

Exposed as ``--profile`` / ``--profile-out`` on every bench CLI command
(through :class:`~repro.obs.instruments.Instruments`), and consumed by
:mod:`repro.obs.diff` for wall-share regression forensics.
"""

from __future__ import annotations

import cProfile
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro.obs.exporters import write_json

__all__ = [
    "PROFILE_SCHEMA_KIND",
    "SUBSYSTEM_RULES",
    "WallProfiler",
    "WallScope",
    "classify_function",
    "render_profile",
    "validate_profile",
    "write_folded",
    "write_profile_json",
]

#: ``kind`` field stamped on every profile payload (artifact detection).
PROFILE_SCHEMA_KIND = "wall_profile"

#: Ordered (subsystem, path fragments) classification rules — first match
#: wins, so the more specific fragments come first.  Paths are matched
#: with ``/`` separators after normalization.
SUBSYSTEM_RULES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("marshal", ("repro/serialization/",)),
    ("coalesce", ("repro/rpc/coalesce",)),
    ("rpc", ("repro/rpc/",)),
    ("fabric", ("repro/fabric/",)),
    ("observability", ("repro/obs/", "repro/simnet/trace",
                       "repro/simnet/stats")),
    ("kernel", ("repro/simnet/",)),
    ("container", ("repro/core/", "repro/bcl/", "repro/structures/")),
    ("memory", ("repro/memory/",)),
    ("app", ("repro/apps/",)),
    ("harness", ("repro/harness/", "repro/cli", "repro/config",
                 "benchmarks/")),
)

#: stdlib modules whose time is marshalling work in this codebase
_MARSHAL_STDLIB = ("/pickle.py", "/struct.py", "/json/", "/codecs.py")


def classify_function(filename: str, funcname: str = "") -> str:
    """Map one profiled function to a subsystem name.

    Anything inside the repo classifies by path; stdlib serialization
    helpers count as ``marshal``; every other non-repo frame (the
    interpreter, builtins, stdlib) is ``python`` — the honest bucket for
    pure interpreter overhead.
    """
    path = filename.replace("\\", "/")
    for subsystem, fragments in SUBSYSTEM_RULES:
        for fragment in fragments:
            if fragment in path:
                return subsystem
    if "repro/" in path:
        return "other"
    for fragment in _MARSHAL_STDLIB:
        if fragment in path:
            return "marshal"
    return "python"


def _short_file(filename: str) -> str:
    """Repo-relative (or basename) display path for one profiled file."""
    path = filename.replace("\\", "/")
    for anchor in ("repro/", "benchmarks/", "tests/"):
        idx = path.find(anchor)
        if idx >= 0:
            return path[idx:]
    if path in ("~", ""):
        return "~"
    return path.rsplit("/", 1)[-1]


def _label(func: Tuple[str, int, str]) -> str:
    """Compact ``file:func`` label for folded-stack frames."""
    filename, _lineno, name = func
    if filename in ("~", ""):
        return name  # e.g. "<built-in method builtins.len>"
    return f"{_short_file(filename)}:{name}"


class WallScope:
    """Explicit named wall-clock phase (harness-level bracketing).

    ``with WallScope("serving.run", profiler):`` accumulates elapsed wall
    seconds under the scope name; nested scopes record a ``;``-joined
    path as well, so coarse phases also show up in the folded output.
    Scopes are *not* meant for per-event hot loops — the cProfile side
    covers those with zero source changes.
    """

    __slots__ = ("name", "profiler", "_t0")

    def __init__(self, name: str, profiler: "WallProfiler"):
        self.name = name
        self.profiler = profiler
        self._t0 = 0.0

    def __enter__(self) -> "WallScope":
        self.profiler._scope_stack.append(self.name)
        self._t0 = self.profiler.clock()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = self.profiler.clock() - self._t0
        stack = self.profiler._scope_stack
        path = ";".join(stack)
        stack.pop()
        self.profiler._record_scope(self.name, path, elapsed)


class WallProfiler:
    """One profiled measurement window (cProfile + explicit scopes)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._prof = cProfile.Profile(timer=clock)
        self._scopes: Dict[str, Dict[str, float]] = {}
        self._scope_stack: List[str] = []
        self._wall = 0.0
        self._runs = 0

    # -- collection -----------------------------------------------------------
    @contextmanager
    def profile(self):
        """Profile the enclosed block (re-enterable; windows accumulate)."""
        t0 = self.clock()
        self._prof.enable()
        try:
            yield self
        finally:
            self._prof.disable()
            self._wall += self.clock() - t0
            self._runs += 1

    def scope(self, name: str) -> WallScope:
        """An explicit named wall phase (usable inside or outside profile())."""
        return WallScope(name, self)

    def _record_scope(self, name: str, path: str, elapsed: float) -> None:
        for key in {name, path}:
            row = self._scopes.setdefault(key, {"wall_seconds": 0.0,
                                                "count": 0})
            row["wall_seconds"] += elapsed
            row["count"] += 1

    # -- reporting ------------------------------------------------------------
    def report(self, top_n: int = 25, command: str = "",
               max_folded: int = 2000, max_depth: int = 32,
               min_folded_seconds: float = 1e-5) -> Dict:
        """JSON-ready payload: subsystem shares, top functions, folded stacks."""
        # Snapshot straight off cProfile: pstats.Stats() both raises on an
        # empty profile (a scopes-only run) and destructively clears the
        # profiler's accumulated stats, breaking repeated report() calls.
        self._prof.create_stats()
        stats = self._prof.stats  # {func: (cc,nc,tt,ct,callers)}
        total_self = sum(entry[2] for entry in stats.values())

        by_subsystem: Dict[str, Dict[str, float]] = {}
        functions: List[Dict] = []
        for func, (cc, nc, tt, ct, _callers) in stats.items():
            filename, lineno, name = func
            subsystem = classify_function(filename, name)
            row = by_subsystem.setdefault(
                subsystem, {"self_seconds": 0.0, "calls": 0})
            row["self_seconds"] += tt
            row["calls"] += nc
            functions.append({
                "name": name,
                "file": _short_file(filename),
                "line": lineno,
                "subsystem": subsystem,
                "calls": nc,
                "self_seconds": tt,
                "cum_seconds": ct,
            })
        functions.sort(key=lambda f: (-f["self_seconds"], f["file"],
                                      f["name"]))
        subsystems = [
            {
                "subsystem": sub,
                "self_seconds": row["self_seconds"],
                "calls": int(row["calls"]),
                "share": (row["self_seconds"] / total_self
                          if total_self > 0 else 0.0),
            }
            for sub, row in sorted(
                by_subsystem.items(),
                key=lambda kv: (-kv[1]["self_seconds"], kv[0]))
        ]
        return {
            "kind": PROFILE_SCHEMA_KIND,
            "command": command,
            "windows": self._runs,
            "wall_seconds": self._wall,
            "profiled_seconds": total_self,
            "subsystems": subsystems,
            "functions": functions[:max(0, top_n)],
            "functions_total": len(functions),
            "scopes": [
                {"name": name, **{k: row[k] for k in ("wall_seconds",
                                                      "count")}}
                for name, row in sorted(self._scopes.items())
            ],
            "folded": _folded_stacks(stats, max_lines=max_folded,
                                     max_depth=max_depth,
                                     min_seconds=min_folded_seconds),
        }


def _folded_stacks(stats: Dict, max_lines: int = 2000, max_depth: int = 32,
                   min_seconds: float = 1e-5) -> List[str]:
    """Approximate folded stacks from cProfile's caller graph.

    cProfile records per-edge cumulative time (callee -> {caller: ct}),
    not full stacks, so the call tree is reconstructed the way flameprof
    does: walk from root functions, splitting each callee's self time
    across incoming edges in proportion to edge cumulative time.  Exact
    for tree-shaped call graphs; proportional-split approximation when a
    function has several callers.  Lines are ``frame;frame;... <us>``
    with integer microsecond values, sorted for deterministic output.
    """
    children: Dict[Tuple, List[Tuple[Tuple, float]]] = {}
    total_in: Dict[Tuple, float] = {}
    for func, (_cc, _nc, _tt, _ct, callers) in stats.items():
        for caller, (_ccc, _cnc, _ctt, cct) in callers.items():
            children.setdefault(caller, []).append((func, cct))
            total_in[func] = total_in.get(func, 0.0) + cct

    out: Dict[str, float] = {}

    def walk(func: Tuple, fraction: float, path: Tuple[str, ...],
             visited: frozenset) -> None:
        entry = stats.get(func)
        if entry is None or fraction <= 0.0:
            return
        _cc, _nc, tt, ct, _callers = entry
        label = _label(func)
        new_path = path + (label,)
        self_t = tt * fraction
        if self_t >= min_seconds:
            key = ";".join(new_path)
            out[key] = out.get(key, 0.0) + self_t
        if len(new_path) >= max_depth or ct * fraction < min_seconds:
            return
        kids = children.get(func)
        if not kids:
            return
        new_visited = visited | {func}
        for child, edge_ct in sorted(kids, key=lambda kv: _label(kv[0])):
            if child in new_visited:
                continue  # recursion cycle: attribute at first visit only
            denom = total_in.get(child, 0.0)
            if denom <= 0.0 or edge_ct <= 0.0:
                continue
            walk(child, fraction * (edge_ct / denom), new_path, new_visited)

    roots = sorted((f for f, entry in stats.items() if not entry[4]),
                   key=_label)
    for root in roots:
        walk(root, 1.0, (), frozenset())

    lines = [f"{path} {int(round(seconds * 1e6))}"
             for path, seconds in sorted(out.items())
             if seconds * 1e6 >= 1.0]
    return lines[:max_lines]


# -- output -------------------------------------------------------------------

def render_profile(payload: Dict, top_n: int = 15) -> str:
    """Plain-text tables: subsystem wall shares + top self-time functions."""
    lines = [
        f"wall-clock profile ({payload.get('command') or 'run'}): "
        f"{payload.get('wall_seconds', 0.0):.3f} s wall, "
        f"{payload.get('profiled_seconds', 0.0):.3f} s profiled, "
        f"{payload.get('functions_total', 0)} functions",
        "  subsystem        self (s)   share",
    ]
    for row in payload.get("subsystems", []):
        lines.append(f"  {row['subsystem']:<15} {row['self_seconds']:>9.4f}"
                     f"   {100 * row['share']:5.1f}%")
    funcs = payload.get("functions", [])[:top_n]
    if funcs:
        lines.append("  top functions by self time:")
        for f in funcs:
            lines.append(
                f"    {f['self_seconds']:>9.4f}s {f['calls']:>9}x "
                f"[{f['subsystem']:<13}] {f['file']}:{f['name']}")
    scopes = payload.get("scopes", [])
    if scopes:
        lines.append("  wall scopes:")
        for s in scopes:
            lines.append(f"    {s['wall_seconds']:>9.4f}s {s['count']:>6}x "
                         f"{s['name']}")
    return "\n".join(lines)


def write_profile_json(payload: Dict, path: str) -> str:
    """Write the profile payload as sorted JSON."""
    return write_json(payload, path)


def write_folded(payload: Dict, path: str) -> int:
    """Write the folded-stack lines (flame-graph input); returns line count."""
    lines = payload.get("folded", [])
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
    return len(lines)


# -- validation ---------------------------------------------------------------

def validate_profile(payload: Dict) -> List[str]:
    """Schema/invariant check of one profile payload (CI + diff loader).

    Checks the shape (required keys, list sections), that subsystem
    shares lie in [0, 1] and sum to ~1 when any time was profiled, that
    function rows carry their required fields, and that folded lines
    parse as ``path <int>``.
    """
    errors: List[str] = []
    if not isinstance(payload, dict):
        return ["profile payload must be an object"]
    if payload.get("kind") != PROFILE_SCHEMA_KIND:
        errors.append(f"kind must be {PROFILE_SCHEMA_KIND!r}, "
                      f"got {payload.get('kind')!r}")
    for key in ("wall_seconds", "profiled_seconds"):
        value = payload.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or value < 0:
            errors.append(f"{key} must be a non-negative number")
    for key in ("subsystems", "functions", "scopes", "folded"):
        if not isinstance(payload.get(key), list):
            errors.append(f"{key} must be a list")
    share_sum = 0.0
    for i, row in enumerate(payload.get("subsystems") or []):
        if not isinstance(row, dict) or "subsystem" not in row:
            errors.append(f"subsystems[{i}]: malformed row")
            continue
        share = row.get("share", 0.0)
        if not 0.0 <= share <= 1.0 + 1e-9:
            errors.append(f"subsystems[{i}] ({row['subsystem']}): "
                          f"share {share} outside [0, 1]")
        share_sum += share
    if (payload.get("profiled_seconds") or 0) > 0 \
            and abs(share_sum - 1.0) > 1e-6:
        errors.append(f"subsystem shares sum to {share_sum}, expected 1")
    for i, row in enumerate(payload.get("functions") or []):
        if not isinstance(row, dict):
            errors.append(f"functions[{i}]: not an object")
            continue
        for key in ("name", "file", "subsystem", "calls", "self_seconds",
                    "cum_seconds"):
            if key not in row:
                errors.append(f"functions[{i}]: missing {key!r}")
    for i, line in enumerate(payload.get("folded") or []):
        if not isinstance(line, str) or " " not in line:
            errors.append(f"folded[{i}]: not a 'path value' line")
            continue
        path, _sep, value = line.rpartition(" ")
        if not path or not value.isdigit():
            errors.append(f"folded[{i}]: value {value!r} not an integer")
    return errors
