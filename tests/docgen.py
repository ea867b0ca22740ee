"""Render the passages of the docs that restate code.

A generated block is the lines between ``<!-- generated: NAME -->`` and
``<!-- /generated -->`` in README.md, DESIGN.md, EXPERIMENTS.md or
``docs/*.md``.  :data:`BLOCKS` maps each NAME to the function that renders
its body from the code, so a fact the code decides is written down once,
by the code.  ``python -m tests.docgen`` rewrites every block in place;
``tests/test_docs.py`` checks that the committed blocks equal the
rendered ones.
"""

from __future__ import annotations

import dataclasses
import inspect
import re
import sys
import textwrap
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md")
BLOCK = re.compile(
    r"^<!-- generated: ([\w-]+) -->\n(.*?)^<!-- /generated -->$",
    re.M | re.S)


# -- reading the code ---------------------------------------------------------

def _documented(owner, names: Iterable[str]) -> Dict[str, Tuple[str, str]]:
    """``name -> (default as written, comment)`` for assignments in the
    source of ``owner`` (a class or a module): the ``#`` / ``#:`` lines
    right above an assignment and its trailing ``#`` comment, joined."""
    wanted = set(names)
    found: Dict[str, Tuple[str, str]] = {}
    above: List[str] = []
    for line in inspect.getsource(owner).splitlines():
        text = line.strip()
        if text.startswith("#") and not text.startswith("# --"):
            above.append(text.lstrip("#:").strip())
            continue
        m = re.match(r"(\w+)\s*(?::[^=]+)?=\s*(.+?)\s*(?:#\s*(.*))?$", text)
        if m and m.group(1) in wanted and m.group(1) not in found:
            doc = " ".join(above + [m.group(3) or ""]).strip()
            doc = doc.replace("``", "`")  # reST literals -> markdown
            found[m.group(1)] = (m.group(2), doc)
        above = []
    missing = wanted - set(found)
    if missing:
        raise KeyError(f"{owner.__name__}: no assignment of {sorted(missing)}")
    return found


def _params(fn: Callable) -> str:
    """``fn``'s parameters as a call would spell them: no ``self``, no
    annotations, defaults by ``repr``."""
    out = []
    star = False
    for p in inspect.signature(fn).parameters.values():
        if p.name == "self":
            continue
        if p.kind is p.VAR_POSITIONAL:
            out.append(f"*{p.name}")
            star = True
        elif p.kind is p.VAR_KEYWORD:
            out.append(f"**{p.name}")
        else:
            if p.kind is p.KEYWORD_ONLY and not star:
                out.append("*")
                star = True
            out.append(p.name if p.default is p.empty
                       else f"{p.name}={p.default!r}")
    return ", ".join(out)


def _call(prefix: str, fn: Callable) -> str:
    """``prefix(params)``, wrapped under its opening parenthesis."""
    return textwrap.fill(f"{prefix}({_params(fn)})", width=78,
                         subsequent_indent=" " * (len(prefix) + 1),
                         break_long_words=False, break_on_hyphens=False)


def _api(cls, instance: str, *, constructor: str = "") -> List[str]:
    """The constructor and each public method of ``cls``, in source order;
    its public properties on one closing line."""
    lines = [_call(constructor or cls.__name__, cls)]
    props = []
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            props.append(f"{instance}.{name}")
        elif inspect.isfunction(member):
            lines.append(_call(f"{instance}.{name}", member))
    if props:
        lines.append(", ".join(props) + "  # properties")
    return lines


def _table(header: Sequence[str], rows: Iterable[Sequence[str]]) -> List[str]:
    out = ["| " + " | ".join(header) + " |",
           "|" + "---|" * len(header)]
    out += ["| " + " | ".join(row) + " |" for row in rows]
    return out


def _fenced(lines: List[str], lang: str = "") -> List[str]:
    return [f"```{lang}", *lines, "```"]


# -- the blocks -----------------------------------------------------------------

def _subcommands():
    from repro.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.choices)
    return [(a.dest, a.help) for a in sub._choices_actions]


def cli_synopsis() -> List[str]:
    names = ",".join(name for name, _help in _subcommands())
    return _fenced([f"python -m repro.cli {{{names}}}"])


def cli_commands() -> List[str]:
    return _table(("subcommand", "what"),
                  ((f"`{name}`", text) for name, text in _subcommands()))


def hcl_api() -> List[str]:
    from repro.core import HCL

    return _fenced(_api(HCL, "hcl", constructor="hcl = HCL"), "python")


def rpc_api() -> List[str]:
    from repro.rpc import RpcClient, RpcServer

    return _fenced(_api(RpcServer, "server", constructor="server = RpcServer")
                   + _api(RpcClient, "client",
                          constructor="client = RpcClient"), "python")


def container_policy() -> List[str]:
    from repro.core.policy import CONCURRENCY_LEVELS, ContainerPolicy

    names = [f.name for f in dataclasses.fields(ContainerPolicy)]
    docs = _documented(ContainerPolicy, names)
    # the one field without a comment; another one raises KeyError here
    levels = ", ".join(f"`{level!r}`" for level in CONCURRENCY_LEVELS)
    uncommented = {"concurrency": f"one of {levels}"}
    return _table(("field", "default", "what"),
                  ((f"`{n}`", f"`{docs[n][0]}`",
                    docs[n][1] or uncommented[n]) for n in names))


def retry_policy() -> List[str]:
    from repro.config import RetryPolicy

    names = [f.name for f in dataclasses.fields(RetryPolicy)]
    docs = _documented(RetryPolicy, names)
    body = [f"    {n}={docs[n][0]},".ljust(26) + f"# {docs[n][1]}"
            for n in names]
    return _fenced(["RetryPolicy(", *body, ")"], "python")


def op_tables() -> List[str]:
    from repro.core.container import OP_TABLES, Op

    flags = ("write", "cached")

    def spell(op) -> str:
        notes = [str(op.arity)] + [f for f in flags[1:] if getattr(op, f)]
        return f"`{op.name}`({', '.join(notes)})"

    docs = _documented(Op, flags)
    return _table(
        ("family", "writes (arity, flags)", "reads (arity, flags)"),
        ((f"`{family}`", ", ".join(spell(op) for op in ops if op.write),
          ", ".join(spell(op) for op in ops if not op.write))
         for family, ops in OP_TABLES.items())) + [""] + [
        f"- `{f}`: {docs[f][1]}" for f in flags]


def _constants(module, names: Sequence[str]) -> List[str]:
    docs = _documented(module, names)
    return _table(("constant", "value", "what"),
                  ((f"`{n}`", f"`{docs[n][0]}`", docs[n][1]) for n in names))


def window_constants() -> List[str]:
    from repro.rpc import window

    return _constants(window, ("INITIAL", "FLOOR", "CAP", "ADDITIVE",
                               "LATENCY_FACTOR"))


def coalescer_constants() -> List[str]:
    from repro.rpc import coalesce

    return _constants(coalesce, ("MAX_BYTES", "AUTO_INITIAL", "AUTO_FLOOR",
                                 "AUTO_HARD_CAP", "AUTO_ADJUST_EVERY",
                                 "AUTO_OVERHEAD_FRACTION"))


def bench_instruments() -> List[str]:
    """The line ``tests/test_cli_bench.py`` checks against every bench."""
    from repro.cli import BENCHES
    from repro.harness.driver import INSTRUMENTS

    every = [h.name for h in BENCHES
             if set(h.instruments) == set(INSTRUMENTS)]
    return ["Every bench takes all three instruments: "
            + ", ".join(f"`{name}`" for name in every) + "."]


#: block name -> the function that renders its lines
BLOCKS: Dict[str, Callable[[], List[str]]] = {
    "cli-synopsis": cli_synopsis,
    "cli-commands": cli_commands,
    "hcl-api": hcl_api,
    "rpc-api": rpc_api,
    "container-policy": container_policy,
    "retry-policy": retry_policy,
    "op-tables": op_tables,
    "window-constants": window_constants,
    "coalescer-constants": coalescer_constants,
    "bench-instruments": bench_instruments,
}


# -- the files ------------------------------------------------------------------

def doc_paths() -> List[Path]:
    return [path for pattern in DOCS for path in sorted(ROOT.glob(pattern))]


def blocks(text: str) -> List[Tuple[str, str]]:
    """``(name, committed body)`` of every generated block in ``text``."""
    return [(m.group(1), m.group(2)) for m in BLOCK.finditer(text)]


def render(name: str) -> str:
    return "\n".join(BLOCKS[name]()) + "\n"


def rewrite(text: str) -> str:
    """``text`` with every generated block re-rendered."""
    return BLOCK.sub(
        lambda m: (f"<!-- generated: {m.group(1)} -->\n{render(m.group(1))}"
                   "<!-- /generated -->"), text)


def main() -> int:
    for path in doc_paths():
        text = path.read_text(encoding="utf-8")
        new = rewrite(text)
        if new != text:
            path.write_text(new, encoding="utf-8")
            print(f"rewrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
